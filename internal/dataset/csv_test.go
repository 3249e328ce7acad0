package dataset_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"booters/internal/dataset"
	"booters/internal/geo"
	"booters/internal/protocols"
)

func TestPanelCSVRoundTrip(t *testing.T) {
	orig := genPanel(t, 55, true)
	var buf bytes.Buffer
	if err := dataset.WritePanelCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.LoadPanelCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Weeks != orig.Weeks {
		t.Fatalf("weeks = %d, want %d", loaded.Weeks, orig.Weeks)
	}
	if !loaded.Start.Equal(orig.Start) {
		t.Fatalf("start = %v, want %v", loaded.Start, orig.Start)
	}
	for w := 0; w < orig.Weeks; w++ {
		if loaded.Global.Values[w] != orig.Global.Values[w] {
			t.Fatalf("week %d global differs: %v vs %v", w, loaded.Global.Values[w], orig.Global.Values[w])
		}
	}
	for _, c := range geo.Countries() {
		for w := 0; w < orig.Weeks; w += 17 {
			if loaded.Country(c).Values[w] != orig.Country(c).Values[w] {
				t.Fatalf("country %s week %d differs", c, w)
			}
		}
	}
	for _, proto := range protocols.All() {
		for w := 0; w < orig.Weeks; w += 17 {
			if loaded.Protocol(proto).Values[w] != orig.Protocol(proto).Values[w] {
				t.Fatalf("protocol %v week %d differs", proto, w)
			}
		}
	}
}

// TestLoadedPanelClones checks that a panel loaded from CSV clones into
// an equal panel that shares no storage with it: writing to every series
// of the clone leaves the loaded panel as it was.
func TestLoadedPanelClones(t *testing.T) {
	var buf bytes.Buffer
	if err := dataset.WritePanelCSV(&buf, genPanel(t, 55, true)); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.LoadPanelCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := loaded.Clone()
	if !reflect.DeepEqual(c, loaded.Panel) {
		t.Fatal("clone of the loaded panel differs from it")
	}
	want := loaded.Clone()
	for _, country := range geo.Countries() {
		c.Country(country).Values[0] = -1
		for _, proto := range protocols.All() {
			c.CountryProtocol(country, proto).Values[1] = -1
		}
	}
	for _, proto := range protocols.All() {
		s := c.Protocol(proto)
		s.Values[len(s.Values)-1] = -1
	}
	c.Global.Values[2] = -1
	if !reflect.DeepEqual(loaded.Panel, want) {
		t.Fatal("writing to the clone changed the loaded panel")
	}
}

func TestLoadPanelCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "week,global\n",
		"missing column": "when,global\n2016-06-06,5\n",
		"bad number":     "week,global\n2016-06-06,notanumber\n",
		"bad date":       "week,global\nyesterday,5\n",
		"non-contiguous": "week,global\n2016-06-06,5\n2016-06-27,6\n",
		"ragged quoting": "week,global\n\"2016-06-06,5\n",
	}
	for name, csv := range cases {
		if _, err := dataset.LoadPanelCSV(strings.NewReader(csv)); err == nil {
			t.Errorf("%s: LoadPanelCSV accepted %q", name, csv)
		}
	}
}

func TestLoadPanelCSVIgnoresUnknownColumns(t *testing.T) {
	in := "week,global,XX,notes\n2016-06-06,100,5,hello\n2016-06-13,110,6,world\n"
	p, err := dataset.LoadPanelCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Weeks != 2 || p.Global.Values[1] != 110 {
		t.Errorf("loaded %d weeks, global[1]=%v", p.Weeks, p.Global.Values[1])
	}
	// Missing country columns load as zeros.
	if p.Country(geo.US).Values[0] != 0 {
		t.Error("missing country column should load as zero")
	}
}
