package booters

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"booters/internal/dataset"
	"booters/internal/scenario"
)

// plantedSeries returns the paper world's planted global expectation and
// its no-intervention counterfactual for the panel generated from seed.
func plantedSeries(t *testing.T, seed int64, p *dataset.Panel) (mu, counterfactual []float64) {
	t.Helper()
	_, m, err := scenario.GeneratePaper(seed, false)
	if err != nil {
		t.Fatalf("GeneratePaper(%d): %v", seed, err)
	}
	return m.PlantedMu, m.CounterfactualMu
}

// writeBits hashes the IEEE-754 bit pattern of every value, in order.
func writeBits(h hash.Hash, values []float64) {
	var buf [8]byte
	for _, v := range values {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestPaperPanelDigests pins every byte the paper world produces for the
// seeds the tests use: the three CSV exports of GeneratePanel and the bit
// patterns of the planted expectation and counterfactual series. Moving
// or restructuring the generator must leave these digests as they are;
// an intended change to the paper world updates them in the same commit.
func TestPaperPanelDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three five-year panels")
	}
	type digests struct{ panel, selfReport, churn, planted string }
	want := map[int64]digests{
		DefaultSeed: {
			panel:      "91624b9019baad3f1135fe10cc3b24bc910a4ab7cdf8faafe1feb0352e007413",
			selfReport: "ddfa87ab5eb8828667c74c835a5e68a90277b33f58e21ecdc3fe53e0d688f235",
			churn:      "f1598ce0a6b8b2a50ebeb8dbc1f6d55d7956600954cb8edf972bce1a0650f777",
			planted:    "bfc83fa88e504af91c0ba890179ca563fc649b583778cce5b864823c6d5c6efa",
		},
		55: {
			panel:      "80578671e52e004f0cfc3b9cb1e273f5956d879ccb03e599205716daff377200",
			selfReport: "17aca9391891b87f53538216e39630f71f4b23271dbdb372235ad2d5997c15cf",
			churn:      "e3ac9c7edae79a50d47c7bdc5ae8164be38948a88fd1d057939bd60d1f2bdc7a",
			planted:    "bfc83fa88e504af91c0ba890179ca563fc649b583778cce5b864823c6d5c6efa",
		},
		99: {
			panel:      "dd03e683532056feada6ae65e8c22f0a00114e971901da0b4a7d0751116b3192",
			selfReport: "6c2d7053a30cbeb182611db2582101fae65336524ee2edf71365edbf8b90ca7f",
			churn:      "ede6a1e7f4175894b1155dc280d54564db7cf613aabf533ca97bce903d050aa9",
			planted:    "bfc83fa88e504af91c0ba890179ca563fc649b583778cce5b864823c6d5c6efa",
		},
	}
	for _, seed := range []int64{DefaultSeed, 55, 99} {
		p, err := GeneratePanel(seed)
		if err != nil {
			t.Fatalf("GeneratePanel(%d): %v", seed, err)
		}
		sum := func(write func(hash.Hash) error) string {
			h := sha256.New()
			if err := write(h); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return hex.EncodeToString(h.Sum(nil))
		}
		mu, cf := plantedSeries(t, seed, p)
		got := digests{
			panel:      sum(func(h hash.Hash) error { return dataset.WritePanelCSV(h, p) }),
			selfReport: sum(func(h hash.Hash) error { return dataset.WriteSelfReportCSV(h, p.SelfReport) }),
			churn:      sum(func(h hash.Hash) error { return dataset.WriteChurnCSV(h, p.SelfReport) }),
			planted: sum(func(h hash.Hash) error {
				writeBits(h, mu)
				writeBits(h, cf)
				return nil
			}),
		}
		if got != want[seed] {
			t.Errorf("seed %d: digests\n got  %+v\n want %+v", seed, got, want[seed])
		}
	}
}
