package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"booters/internal/honeypot"
)

// buildHostile derives the hostile twin of a clean, time-sorted stream:
// per-sensor clock skew first (then re-sort, so downstream transforms see
// arrival order), duplicates inserted adjacent to their originals, and
// finally bounded reordering. Seeded independently of the generator so
// adding a transform never changes the clean stream.
func buildHostile(cfg Config, clean []honeypot.Packet) ([]honeypot.Packet, []time.Duration) {
	h := cfg.Hostile
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x486f7374)) // "Host"
	stream := make([]honeypot.Packet, len(clean))
	copy(stream, clean)
	var skew []time.Duration
	if h.SkewSeconds > 0 {
		skew = SkewSensors(stream, rng, cfg.Sensors, time.Duration(h.SkewSeconds*float64(time.Second)))
		slices.SortFunc(stream, honeypot.ComparePackets)
	}
	if h.DuplicatePct > 0 {
		stream = Duplicate(stream, rng, h.DuplicatePct)
	}
	if h.ReorderSeconds > 0 {
		Reorder(stream, rng, time.Duration(h.ReorderSeconds*float64(time.Second)))
	}
	return stream, skew
}

// Duplicate returns the stream with pct percent of packets emitted twice,
// the copy delivered adjacent to its original (a retransmitting sensor).
// One extra copy per packet keeps any scan flow's per-sensor count at 2,
// far under the attack threshold, so duplication can never flip a
// classification — the weekly panel must not change.
func Duplicate(packets []honeypot.Packet, rng *rand.Rand, pct float64) []honeypot.Packet {
	out := make([]honeypot.Packet, 0, len(packets)+int(float64(len(packets))*pct/100)+1)
	p := pct / 100
	for _, pkt := range packets {
		out = append(out, pkt)
		if rng.Float64() < p {
			out = append(out, pkt)
		}
	}
	return out
}

// SkewSensors shifts every packet's timestamp by a per-sensor clock
// offset drawn uniformly in [-max, +max], in place, and returns the
// offsets indexed by sensor. The caller re-sorts if it needs arrival
// order; the generator's week margins guarantee no flow changes weeks
// for max <= maxSkewSeconds.
func SkewSensors(packets []honeypot.Packet, rng *rand.Rand, sensors int, max time.Duration) []time.Duration {
	offsets := make([]time.Duration, sensors)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(2*max))) - max
	}
	for i := range packets {
		if s := packets[i].Sensor; s >= 0 && s < sensors {
			packets[i].Time = packets[i].Time.Add(offsets[s])
		}
	}
	return offsets
}

// Reorder shuffles delivery order within consecutive time buckets of the
// given window, in place. Displacement is bounded: when a packet stamped
// t is delivered, everything still to come is stamped after t-window, so
// feeding an unordered pipeline with the source watermark lagged by the
// window is a valid promise. The input must be time-sorted.
func Reorder(packets []honeypot.Packet, rng *rand.Rand, window time.Duration) {
	if len(packets) == 0 || window <= 0 {
		return
	}
	t0 := packets[0].Time
	start := 0
	bucket := int64(0)
	flush := func(end int) {
		part := packets[start:end]
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
		start = end
	}
	for i, p := range packets {
		b := int64(p.Time.Sub(t0) / window)
		if b != bucket {
			flush(i)
			bucket = b
		}
	}
	flush(len(packets))
}

// CorruptSpool deterministically flips a run of bytes in the body of one
// recorded spool segment (the middle one, past its header blocks) — the
// adversarial-corruption fixture. Replays must surface the damage as a
// torn segment (spool.ReplayStats.Torn / DataLoss) instead of silently
// diverging the panel. It returns the corrupted segment's file name.
func CorruptSpool(dir string, seed int64) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return "", fmt.Errorf("scenario: no spool segments in %s", dir)
	}
	sort.Strings(segs)
	name := segs[len(segs)/2]
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if len(data) < 128 {
		return "", fmt.Errorf("scenario: segment %s too small to corrupt meaningfully (%d bytes)", name, len(data))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x546f726e)) // "Torn"
	// Flip a 64-byte run past the segment's midpoint: record blocks, not
	// the file header, so complete records before the tear stay readable.
	off := len(data)/2 + rng.Intn(len(data)/4)
	for i := 0; i < 64 && off+i < len(data); i++ {
		data[off+i] ^= 0xA5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return name, nil
}
