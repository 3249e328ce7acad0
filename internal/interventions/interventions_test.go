package interventions

import (
	"testing"
	"time"
)

func TestCatalogueChronological(t *testing.T) {
	evs := Catalogue()
	if len(evs) != 16 {
		t.Fatalf("catalogue has %d events, want 16", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Date.Before(evs[i-1].Date) {
			t.Errorf("catalogue out of order at %s", evs[i].Name)
		}
	}
}

func TestModelledMatchesTable1(t *testing.T) {
	m := Modelled()
	want := []string{"Xmas2018", "Webstresser", "Mirai", "HackForums", "vDOS"}
	if len(m) != len(want) {
		t.Fatalf("modelled = %d events", len(m))
	}
	for i, name := range want {
		if m[i].Name != name {
			t.Errorf("modelled[%d] = %s, want %s", i, m[i].Name, name)
		}
		if !m[i].Modelled {
			t.Errorf("%s not flagged as modelled", name)
		}
	}
}

func TestKeyDates(t *testing.T) {
	cases := map[string]time.Time{
		"HackForums":  time.Date(2016, 10, 28, 0, 0, 0, 0, time.UTC),
		"Webstresser": time.Date(2018, 4, 24, 0, 0, 0, 0, time.UTC),
		"Xmas2018":    time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC),
	}
	for name, want := range cases {
		ev, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if !ev.Date.Equal(want) {
			t.Errorf("%s date = %v, want %v", name, ev.Date, want)
		}
	}
	if _, ok := ByName("nonsense"); ok {
		t.Error("ByName(nonsense) resolved")
	}
}

func TestNCACampaignHasEndDate(t *testing.T) {
	ev, ok := ByName("NCAAds")
	if !ok {
		t.Fatal("missing NCAAds")
	}
	if ev.Kind != Messaging {
		t.Errorf("NCAAds kind = %v, want messaging", ev.Kind)
	}
	if ev.End.IsZero() || !ev.End.After(ev.Date) {
		t.Errorf("NCAAds end %v should follow start %v", ev.End, ev.Date)
	}
	if len(ev.Countries) != 1 || ev.Countries[0] != "UK" {
		t.Errorf("NCAAds countries = %v, want [UK]", ev.Countries)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		Sentencing: "sentencing", Arrest: "arrest", Takedown: "takedown",
		MarketClosure: "market closure", Messaging: "messaging",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

func TestEveryEventDescribed(t *testing.T) {
	for _, ev := range Catalogue() {
		if ev.Description == "" {
			t.Errorf("%s has no description", ev.Name)
		}
		if ev.Date.IsZero() {
			t.Errorf("%s has no date", ev.Name)
		}
	}
}

func TestDateReadsTheCatalogue(t *testing.T) {
	for _, ev := range Catalogue() {
		if got := Date(ev.Name); !got.Equal(ev.Date) {
			t.Errorf("Date(%s) = %v, want %v", ev.Name, got, ev.Date)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Date(nonsense) returned instead of panicking")
		}
	}()
	Date("nonsense")
}
