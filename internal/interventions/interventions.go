// Package interventions catalogues the law-enforcement events the paper
// studies (§2): court cases and sentencing, arrests, individual booter
// takedowns, the HackForums market closure, the FBI's coordinated Xmas2018
// operation, and the NCA's targeted advertising campaign.
package interventions

import (
	"fmt"
	"time"
)

// Kind classifies an intervention by the mechanism it works through, which
// is how the paper's discussion (§6) groups them.
type Kind int

const (
	// Sentencing is media coverage of a prosecution or sentencing of a
	// provider or user.
	Sentencing Kind = iota
	// Arrest is the arrest of providers or users without a simultaneous
	// service takedown.
	Arrest
	// Takedown is the seizure/shutdown of one booter service.
	Takedown
	// MarketClosure is a wide-ranging disruption of booter shop-fronts
	// (forum section closures, mass domain seizures).
	MarketClosure
	// Messaging is a targeted warning/advertising campaign at potential
	// users.
	Messaging
)

// String returns the kind label.
func (k Kind) String() string {
	switch k {
	case Sentencing:
		return "sentencing"
	case Arrest:
		return "arrest"
	case Takedown:
		return "takedown"
	case MarketClosure:
		return "market closure"
	case Messaging:
		return "messaging"
	default:
		return "unknown"
	}
}

// Event is one catalogued intervention.
type Event struct {
	// Name is the label used in figures and model columns.
	Name string
	// Date is the event date (start date for campaigns).
	Date time.Time
	// End is the campaign end date; zero for point events.
	End time.Time
	// Kind is the mechanism classification.
	Kind Kind
	// Countries lists ISO-ish country codes whose users/providers were
	// directly targeted (empty means global).
	Countries []string
	// Modelled reports whether the paper found the event statistically
	// significant in the global model (Table 1).
	Modelled bool
	// Description is a one-line summary from §2.
	Description string
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// Catalogue returns all §2 events in chronological order.
func Catalogue() []Event {
	return []Event{
		{
			Name: "OperationVivarium", Date: date(2015, time.August, 28), Kind: Arrest,
			Countries:   []string{"UK"},
			Description: "Six UK LizardStresser customers arrested; ~50 cease-and-desist home visits",
		},
		{
			Name: "VivariumSentencing", Date: date(2015, time.December, 22), Kind: Sentencing,
			Countries:   []string{"UK"},
			Description: "17-year-old sentenced over LizardStresser DoS attack",
		},
		{
			Name: "NetspoofSentencing", Date: date(2016, time.April, 8), Kind: Sentencing,
			Countries:   []string{"UK"},
			Description: "Operator of four booters including Netspoof sentenced",
		},
		{
			Name: "KrebsVDOSArrests", Date: date(2016, time.September, 8), Kind: Arrest,
			Description: "vDOS database leak reported; two operators arrested in Israel",
		},
		{
			Name: "LizardstresserArrests", Date: date(2016, time.October, 6), Kind: Arrest,
			Countries:   []string{"US", "NL"},
			Description: "Two 19-year-olds arrested in the US and Netherlands for running LizardStresser",
		},
		{
			Name: "HackForums", Date: date(2016, time.October, 28), Kind: MarketClosure,
			Modelled:    true,
			Description: "HackForums removes its Server Stress Testing section and bans booter adverts",
		},
		{
			Name: "IntlActionUsers", Date: date(2016, time.December, 5), Kind: Arrest,
			Description: "Europol-coordinated action against booter users: 34 arrests, 101 cautioned",
		},
		{
			Name: "TitaniumSentencing", Date: date(2017, time.April, 25), Kind: Sentencing,
			Countries:   []string{"UK"},
			Description: "Titaniumstresser operator sentenced to 24 months",
		},
		{
			Name: "vDOS", Date: date(2017, time.December, 19), Kind: Sentencing,
			Modelled:    true,
			Description: "UK vDOS-linked sentencing; widely reported",
		},
		{
			Name: "NCAAds", Date: date(2017, time.December, 20), End: date(2018, time.June, 30), Kind: Messaging,
			Countries:   []string{"UK"},
			Description: "NCA buys Google search adverts warning UK users that DoS is illegal",
		},
		{
			Name: "LizardstresserSentencing", Date: date(2018, time.March, 27), Kind: Sentencing,
			Countries:   []string{"US"},
			Description: "LizardStresser operator sentenced in the US",
		},
		{
			Name: "DejabooterSentencing", Date: date(2018, time.April, 8), Kind: Sentencing,
			Countries:   []string{"UK"},
			Description: "Dejabooter operator sentenced",
		},
		{
			Name: "Webstresser", Date: date(2018, time.April, 24), Kind: Takedown,
			Modelled:    true,
			Description: "Webstresser domain seized; administrators arrested in UK, Croatia, Canada, Serbia",
		},
		{
			Name: "MiraiSentencing1", Date: date(2018, time.September, 18), Kind: Sentencing,
			Countries:   []string{"US"},
			Description: "Three Mirai authors sentenced (probation, community service, restitution)",
		},
		{
			Name: "Mirai", Date: date(2018, time.October, 26), Kind: Sentencing,
			Modelled:    true,
			Description: "Further Mirai sentencing (Rutgers attacks) and related actions",
		},
		{
			Name: "Xmas2018", Date: date(2018, time.December, 19), Kind: MarketClosure,
			Modelled:    true,
			Description: "FBI seizes 15 booter domains and arrests three operators before Christmas",
		},
	}
}

// Modelled returns only the five events the paper includes in the global
// Table 1 model, in Table 1 row order.
func Modelled() []Event {
	want := []string{"Xmas2018", "Webstresser", "Mirai", "HackForums", "vDOS"}
	byName := make(map[string]Event)
	for _, e := range Catalogue() {
		byName[e.Name] = e
	}
	out := make([]Event, 0, len(want))
	for _, n := range want {
		out = append(out, byName[n])
	}
	return out
}

// Date returns the catalogued date of the named event: the one table of
// intervention dates that models and generators read. It panics when the
// name is not catalogued, since callers name events of the fixed §2
// catalogue.
func Date(name string) time.Time {
	ev, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("interventions: %q is not catalogued", name))
	}
	return ev.Date
}

// ByName returns the catalogued event with the given name and whether it
// exists.
func ByName(name string) (Event, bool) {
	for _, e := range Catalogue() {
		if e.Name == name {
			return e, true
		}
	}
	return Event{}, false
}
