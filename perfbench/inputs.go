package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/loadgen"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// watermarkKey is the HMAC key the fleet is imprinted with and the
// service verifies against (loadgen's default).
const watermarkKey = "loadgen-key"

// planLen is the number of requests in a plan. No run reaches its end
// on the cold workload, so chips there are never reused early; the hit
// workloads wrap around it.
const planLen = 1 << 15

// dockWarm is the number of chips dock-cold's set-up warms up on.
const dockWarm = 4

// misreadLimit bounds the share of fleet chips whose reference-physics
// verdict may differ from their class's ideal verdict; misreadFloor is
// the allowance for small fleets. The model's own false-reject rate is
// under 1%, so more than this means the physics is broken, and the run
// is refused.
const (
	misreadLimit = 0.03
	misreadFloor = 4
)

// newVerifier is fmverifyd's default inspection policy for the fleet.
func newVerifier() counterfeit.Verifier {
	return counterfeit.Verifier{Codec: wmcode.Codec{Key: []byte(watermarkKey)}, CheckRecycling: true}
}

// chip is one fleet member with its reference-physics verdict.
type chip struct {
	class counterfeit.ChipClass
	bytes []byte
	// physics is the verdict the per-cell reference physics path gives
	// these bytes, computed outside the service before any timing.
	physics counterfeit.Verdict
	key     registry.Key // decoded identity (valid when hasKey)
	hasKey  bool
	fp      registry.Fingerprint // the service's device fingerprint
	victim  int                  // genuine chip whose die id a clone carries, else -1
}

// idealVerdict is the verdict a perfect physics screen gives a class.
// Replay-imprint clones are physically genuine; only the registry or
// the challenge axis can tell them apart.
func idealVerdict(c counterfeit.ChipClass) counterfeit.Verdict {
	switch c {
	case counterfeit.ClassGenuineAccept, counterfeit.ClassReplayImprint:
		return counterfeit.VerdictGenuine
	case counterfeit.ClassRecycled:
		return counterfeit.VerdictRecycled
	case counterfeit.ClassGenuineReject:
		return counterfeit.VerdictRejectDie
	case counterfeit.ClassTopUpTamper:
		return counterfeit.VerdictTampered
	default:
		return counterfeit.VerdictNoWatermark
	}
}

// want is the expected outcome for one chip of a request.
type want struct {
	verdict string
	// enrolled and match are the expected challenge fields.
	enrolled, match bool
}

// request is one planned call.
type request struct {
	op    op
	chips []int
	want  []want
}

// inputs is everything a run derives from (workload, seed) before any
// timing starts.
type inputs struct {
	w            workload
	seed         uint64
	chips        []chip
	manufacturer string
	// enrolled marks the chips whose identity is on file: genuine chips
	// that screen GENUINE, the only ones /v1/enroll accepts.
	enrolled []bool
	// owners maps an enrolled identity to its chip.
	owners   map[registry.Key]int
	misreads int
	// warm lists the chips the set-up warm-up pass verifies.
	warm        []int
	plan        []request
	fleetDigest string
	planDigest  string
	wantDigest  string
}

// buildInputs fabricates the fleet, screens it on the reference physics
// path, and derives the request plan with every expected verdict.
func buildInputs(w workload, seed uint64) (*inputs, error) {
	fleet, err := buildFleet(w, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed}
	if in.chips, err = screenFleet(fleet); err != nil {
		return nil, err
	}
	h := sha256.New()
	in.enrolled = make([]bool, len(in.chips))
	in.owners = make(map[registry.Key]int)
	for i, c := range in.chips {
		h.Write(c.bytes)
		if c.physics != idealVerdict(c.class) {
			in.misreads++
		}
		if c.class == counterfeit.ClassGenuineAccept && c.physics == counterfeit.VerdictGenuine {
			in.enrolled[i] = true
			in.owners[c.key] = i
			if in.manufacturer == "" {
				in.manufacturer = c.key.Manufacturer
			}
		}
	}
	in.fleetDigest = hex.EncodeToString(h.Sum(nil))[:16]
	if in.manufacturer == "" {
		return nil, fmt.Errorf("fleet has no genuine chip that screens GENUINE")
	}
	if limit := max(misreadLimit*float64(len(in.chips)), misreadFloor); float64(in.misreads) > limit {
		return nil, fmt.Errorf("%d of %d chips read a physics verdict other than their class's (limit %.0f)",
			in.misreads, len(in.chips), limit)
	}
	in.plan = in.buildPlan()
	in.planDigest, in.wantDigest = in.digests()
	return in, nil
}

// counterfeitPool is how many counterfeits per fleet slot buildFleet
// fabricates to draw an even class split from.
const counterfeitPool = 3

// buildFleet fabricates the workload's fleet with exactly
// counterfeits/4 chips of each of loadgen's four counterfeit classes.
// loadgen draws each counterfeit's class at random, and the classes
// differ in verify cost and memory: on dock-cold the recycled count
// alone (8 to 20 of 48 over seeds 1 to 10) moved CPU time per chip by
// 15% and peak RSS by 27%. A fixed split keeps the seed from moving
// them. Genuine chips and clones keep their loadgen indices.
func buildFleet(w workload, seed uint64) (*loadgen.Fleet, error) {
	spec := loadgen.FleetSpec{Genuine: w.genuine, Clones: w.clones, Counterfeits: w.counterfeits, Key: watermarkKey}
	if w.counterfeits <= 0 {
		return loadgen.BuildFleet(spec, seed)
	}
	if w.counterfeits%4 != 0 {
		return nil, fmt.Errorf("%d counterfeits do not split evenly over 4 classes", w.counterfeits)
	}
	spec.Counterfeits = counterfeitPool * w.counterfeits
	fleet, err := loadgen.BuildFleet(spec, seed)
	if err != nil {
		return nil, err
	}
	keep := spec.Genuine + spec.Clones
	per := map[counterfeit.ChipClass]int{}
	chips := fleet.Chips[:keep]
	for _, c := range fleet.Chips[keep:] {
		if per[c.Class] < w.counterfeits/4 {
			per[c.Class]++
			chips = append(chips, c)
		}
	}
	if len(chips) != keep+w.counterfeits {
		return nil, fmt.Errorf("seed %d: %d counterfeits drew too few of some class: %v", seed, spec.Counterfeits, per)
	}
	fleet.Chips = chips
	fleet.Spec.Counterfeits = w.counterfeits
	return fleet, nil
}

// screenFleet runs the reference-physics verifier over every chip.
func screenFleet(fleet *loadgen.Fleet) ([]chip, error) {
	v := newVerifier()
	spec := fleet.Spec
	pool := parallel.Pool{Workers: runtime.GOMAXPROCS(0)}
	return parallel.Map(pool, len(fleet.Chips), func(i int) (chip, error) {
		fc := fleet.Chips[i]
		dev, err := new(mcu.Loader).Load(fc.Bytes)
		if err != nil {
			return chip{}, fmt.Errorf("loading fleet chip %d: %w", i, err)
		}
		if err := device.SetPhysicsPath(dev, device.PhysicsReference); err != nil {
			return chip{}, err
		}
		c := chip{class: fc.Class, bytes: fc.Bytes, victim: -1,
			fp: registry.DeviceFingerprint(dev.PartName(), dev.Seed())}
		if fc.Class == counterfeit.ClassReplayImprint {
			c.victim = (i - spec.Genuine) % spec.Genuine
		}
		res, err := v.Verify(dev)
		if err != nil {
			return chip{}, fmt.Errorf("screening fleet chip %d: %w", i, err)
		}
		c.physics = res.Verdict
		if res.DecodeErr == nil && res.Verdict != counterfeit.VerdictInconclusive {
			c.key = registry.Key{Manufacturer: res.Payload.Manufacturer, DieID: res.Payload.DieID}
			c.hasKey = true
		}
		return c, nil
	})
}

// indices returns the chip indices for which keep holds.
func (in *inputs) indices(keep func(i int, c chip) bool) []int {
	var out []int
	for i, c := range in.chips {
		if keep(i, c) {
			out = append(out, i)
		}
	}
	return out
}

// buildPlan draws the workload's request sequence from the seed.
func (in *inputs) buildPlan() []request {
	r := rng.New(in.seed).Split(0x504C414E) // "PLAN"
	plan := make([]request, 0, planLen)
	in.warm = in.indices(func(int, chip) bool { return true })
	switch {
	case in.w.challenge:
		// Field challenge of stock that passes the physics screen (the
		// endpoint's precondition): enrolled genuine chips and clones,
		// 3 to 1.
		genuine := in.indices(func(i int, _ chip) bool { return in.enrolled[i] })
		clones := in.indices(func(_ int, c chip) bool {
			return c.class == counterfeit.ClassReplayImprint && c.physics == counterfeit.VerdictGenuine
		})
		for len(plan) < planLen {
			pick := genuine
			if r.Intn(4) == 0 && len(clones) > 0 {
				pick = clones
			}
			plan = append(plan, in.request(opChallenge, pick[r.Intn(len(pick))]))
		}
	case in.w.shards > 0:
		// Re-audit: 4 batches of 16 to 4 single verifies to 2
		// re-enrolls of enrolled genuine chips.
		genuine := in.indices(func(i int, _ chip) bool { return in.enrolled[i] })
		for len(plan) < planLen {
			switch k := r.Intn(10); {
			case k < 4:
				perm := r.Perm(len(in.chips))
				plan = append(plan, in.request(opBatch, perm[:16]...))
			case k < 8:
				plan = append(plan, in.request(opVerify, r.Intn(len(in.chips))))
			default:
				plan = append(plan, in.request(opEnroll, genuine[r.Intn(len(genuine))]))
			}
		}
	default:
		// Incoming inspection: one seeded permutation of the fleet,
		// consumed in order and repeated, 3 singles to 1 batch of 4. A
		// fixed batch size keeps the latency modes apart, so neither
		// p50 nor p90 sits on the edge between two of them.
		perm := r.Perm(len(in.chips))
		// Warm up on the permutation's last dockWarm enrolled genuine
		// chips: the stream evicts them from the 64-entry cache long
		// before it reaches them. One class keeps the warm-up's cost,
		// which set-up time includes, from depending on the seed.
		in.warm = nil
		for j := len(perm) - 1; j >= 0 && len(in.warm) < dockWarm; j-- {
			if in.enrolled[perm[j]] {
				in.warm = append(in.warm, perm[j])
			}
		}
		next := 0
		take := func(n int) []int {
			out := make([]int, n)
			for j := range out {
				out[j] = perm[next%len(perm)]
				next++
			}
			return out
		}
		for len(plan) < planLen {
			if r.Intn(4) < 3 {
				plan = append(plan, in.request(opVerify, take(1)...))
			} else {
				plan = append(plan, in.request(opBatch, take(4)...))
			}
		}
	}
	return plan
}

// request builds one planned call with its expected outcome.
func (in *inputs) request(o op, chips ...int) request {
	rq := request{op: o, chips: chips, want: make([]want, len(chips))}
	for j, i := range chips {
		rq.want[j] = in.expect(o, i, chips)
	}
	return rq
}

// expect derives the outcome for chip i sent in a request of kind o
// alongside batch, from its reference verdict and the registry state:
//   - a chip that is not physics-GENUINE keeps its physics verdict;
//   - a physics-GENUINE chip whose die id is on file under another
//     physical fingerprint is DUPLICATE-ID (a clone of enrolled stock);
//   - in a batch, a physics-GENUINE chip sharing its die id with a
//     different physical chip of the same batch is DUPLICATE-ID, the
//     enrolled victim included;
//   - a re-enroll of an enrolled chip is a duplicate, never a conflict;
//   - a challenge matches for the enrolled chip and mismatches
//     (DUPLICATE-ID) for a clone of an enrolled die.
func (in *inputs) expect(o op, i int, batch []int) want {
	c := in.chips[i]
	genuine := counterfeit.VerdictGenuine.String()
	dup := counterfeit.VerdictDuplicateID.String()
	switch o {
	case opEnroll:
		return want{verdict: genuine}
	case opChallenge:
		if in.enrolled[i] {
			return want{verdict: genuine, enrolled: true, match: true}
		}
		if c.victim >= 0 && in.enrolled[c.victim] {
			return want{verdict: dup, enrolled: true}
		}
		return want{verdict: genuine}
	}
	if c.physics != counterfeit.VerdictGenuine || !c.hasKey {
		return want{verdict: c.physics.String()}
	}
	// The honest-hardware regime enrolls zero fingerprints, which never
	// conflict; otherwise an enrolled die carries its own fingerprint.
	if !in.w.challenge {
		if owner, ok := in.owners[c.key]; ok && in.chips[owner].fp != c.fp {
			return want{verdict: dup}
		}
	}
	if o == opBatch {
		for _, j := range batch {
			o := in.chips[j]
			if o.physics == counterfeit.VerdictGenuine && o.hasKey && o.key == c.key && o.fp != c.fp {
				return want{verdict: dup}
			}
		}
	}
	return want{verdict: genuine}
}

// digests fingerprints the plan (ops and chip picks) and the expected
// verdict vector, so two runs can be compared by eye.
func (in *inputs) digests() (plan, wants string) {
	ph, wh := sha256.New(), sha256.New()
	var b [8]byte
	for _, rq := range in.plan {
		ph.Write([]byte{byte(rq.op), byte(len(rq.chips))})
		for j, i := range rq.chips {
			binary.LittleEndian.PutUint64(b[:], uint64(i))
			ph.Write(b[:])
			w := rq.want[j]
			fmt.Fprintf(wh, "%s/%t/%t;", w.verdict, w.enrolled, w.match)
		}
	}
	return hex.EncodeToString(ph.Sum(nil))[:16], hex.EncodeToString(wh.Sum(nil))[:16]
}

// at returns request n of the unbounded request stream.
func (in *inputs) at(n int64) *request { return &in.plan[n%int64(len(in.plan))] }
