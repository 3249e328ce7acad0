package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"booters/internal/honeypot"
)

// streamDigest is a SHA-256 over every packet's time, sensor, victim,
// protocol and size, in stream order.
func streamDigest(packets []honeypot.Packet) string {
	h := sha256.New()
	var buf [8 + 8 + 16 + 8 + 8]byte
	for _, p := range packets {
		binary.BigEndian.PutUint64(buf[0:], uint64(p.Time.UnixNano()))
		binary.BigEndian.PutUint64(buf[8:], uint64(p.Sensor))
		v := p.Victim.As16()
		copy(buf[16:], v[:])
		binary.BigEndian.PutUint64(buf[32:], uint64(p.Proto))
		binary.BigEndian.PutUint64(buf[40:], uint64(p.Size))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scrapeDigest is a SHA-256 over every scrape event's week, site, up
// flag and published total, in stream order; "" for a run without a
// scrape stream.
func scrapeDigest(events []ScrapeEvent) string {
	if events == nil {
		return ""
	}
	h := sha256.New()
	var buf [8 + 1 + 8]byte
	for _, ev := range events {
		binary.BigEndian.PutUint64(buf[0:], uint64(ev.Week))
		buf[8] = 0
		if ev.Up {
			buf[8] = 1
		}
		binary.BigEndian.PutUint64(buf[9:], math.Float64bits(ev.Total))
		h.Write(buf[:])
		h.Write([]byte(ev.Site))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCatalogStreamDigests pins every catalog scenario's clean and
// hostile streams and its scrape stream byte for byte. The bench inputs
// and the recovery fixtures are all built from these streams, so a
// generator change that moves any packet or counter observation — an
// extra RNG draw, a reordered emission — fails here even when the weekly
// panel still matches its plan. An intended
// change to the generator updates these digests in the same commit.
func TestCatalogStreamDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog generation is seconds of work")
	}
	want := map[string]struct{ clean, hostile, scrape string }{
		"flash-sale":         {"1fd6d0d49f25328d5f6ee74ff1faebc05005cc2fc0e8de1a2f0e699780b5f533", "", ""},
		"hostile-flood":      {"cfe99a9aa382cab8c1f9b0fd508bd6aa266abb8e8f21ac180a8c692be8926acc", "da603752b2015c58916aaf94b3e85889aae0e87e003415032ba21726b09a2aee", ""},
		"market-churn":       {"824b2ee90145fd424259fdd9f70f2d889dc3dd1bb75ab011336456c3849f3e3c", "", "cbae336449cb57aea0fdec19caecfda884bf338468998dbd992ef9ad9b3b85d9"},
		"mitigation-cap":     {"342452a3022f9fb2805644d3cb4e49cd68ea66b62a15d4b7ca46a06c023da0da", "", ""},
		"takedown-migration": {"bc26f5fe4540ad456ba858f591a26749868a7f6f3eeb43544a70c602cfb877a9", "", ""},
		"takedown-sharp":     {"462c1f1d17e51c001075bdf332e16089a2eb6d70df308964e99f5441459bd6d3", "", "c99a75c3a7bafb6d634fe2a62d708099aae94b50e1b9d5ec900dfd4b16015960"},
		"takedown-wave":      {"104725cba664ebe09b74e03e26e8c0de80bc6f4f8dfbc2867116b57cc4abfbcc", "", ""},
	}
	for _, name := range Names() {
		cfg, _ := Catalog(name)
		run, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned digest", name)
			continue
		}
		if got := streamDigest(run.Packets); got != w.clean {
			t.Errorf("%s: clean stream digest %s, want %s", name, got, w.clean)
		}
		hostile := ""
		if run.Hostile != nil {
			hostile = streamDigest(run.Hostile)
		}
		if hostile != w.hostile {
			t.Errorf("%s: hostile stream digest %q, want %q", name, hostile, w.hostile)
		}
		if got := scrapeDigest(run.Scrape); got != w.scrape {
			t.Errorf("%s: scrape stream digest %q, want %q", name, got, w.scrape)
		}
	}
}
