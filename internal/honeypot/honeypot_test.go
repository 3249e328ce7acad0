package honeypot

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"booters/internal/protocols"
)

var (
	t0      = time.Date(2018, 12, 19, 12, 0, 0, 0, time.UTC)
	victimA = netip.MustParseAddr("10.1.2.3")
	victimB = netip.MustParseAddr("11.4.5.6")
)

func pkt(offset time.Duration, victim netip.Addr, proto protocols.Protocol, sensor int) Packet {
	return Packet{Time: t0.Add(offset), Victim: victim, Proto: proto, Sensor: sensor, Size: 64}
}

func TestAggregatorGroupsOneFlow(t *testing.T) {
	a := NewAggregator()
	for i := 0; i < 10; i++ {
		if err := a.Offer(pkt(time.Duration(i)*time.Minute, victimA, protocols.NTP, i%3)); err != nil {
			t.Fatal(err)
		}
	}
	flows := a.Flush()
	if len(flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(flows))
	}
	f := flows[0]
	if f.TotalPackets != 10 {
		t.Errorf("TotalPackets = %d", f.TotalPackets)
	}
	if f.Duration() != 9*time.Minute {
		t.Errorf("Duration = %v", f.Duration())
	}
	if len(f.PacketsBySensor) != 3 {
		t.Errorf("sensors = %d, want 3", len(f.PacketsBySensor))
	}
}

func TestFifteenMinuteGapSplitsFlows(t *testing.T) {
	a := NewAggregator()
	// Two bursts separated by exactly the gap: must split.
	for i := 0; i < 3; i++ {
		must(t, a.Offer(pkt(time.Duration(i)*time.Minute, victimA, protocols.DNS, 0)))
	}
	gapStart := 2*time.Minute + FlowGap
	for i := 0; i < 3; i++ {
		must(t, a.Offer(pkt(gapStart+time.Duration(i)*time.Minute, victimA, protocols.DNS, 0)))
	}
	flows := a.Flush()
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2 (gap must split)", len(flows))
	}
	// A sub-gap pause must NOT split.
	b := NewAggregator()
	must(t, b.Offer(pkt(0, victimA, protocols.DNS, 0)))
	must(t, b.Offer(pkt(FlowGap-time.Second, victimA, protocols.DNS, 0)))
	if flows := b.Flush(); len(flows) != 1 {
		t.Errorf("sub-gap pause split the flow: %d flows", len(flows))
	}
}

func TestSeparateVictimsAndProtocolsSeparateFlows(t *testing.T) {
	a := NewAggregator()
	must(t, a.Offer(pkt(0, victimA, protocols.DNS, 0)))
	must(t, a.Offer(pkt(time.Second, victimB, protocols.DNS, 0)))
	must(t, a.Offer(pkt(2*time.Second, victimA, protocols.NTP, 0)))
	flows := a.Flush()
	if len(flows) != 3 {
		t.Fatalf("got %d flows, want 3", len(flows))
	}
}

func TestClassificationThreshold(t *testing.T) {
	// Exactly AttackThreshold packets at one sensor: still a scan ("more
	// than 5 packets").
	a := NewAggregator()
	for i := 0; i < AttackThreshold; i++ {
		must(t, a.Offer(pkt(time.Duration(i)*time.Second, victimA, protocols.LDAP, 0)))
	}
	// And 6 packets spread over 6 sensors: also a scan.
	for i := 0; i < 6; i++ {
		must(t, a.Offer(pkt(time.Duration(i)*time.Second, victimB, protocols.LDAP, i)))
	}
	flows := a.Flush()
	for _, f := range flows {
		if f.IsAttack() {
			t.Errorf("flow %v classified as attack with max sensor count %d", f.Key, f.MaxSensorPackets())
		}
		if Classify(f) != Scan {
			t.Errorf("Classify = %v, want Scan", Classify(f))
		}
	}
	// One more packet at a single sensor tips it to attack.
	b := NewAggregator()
	for i := 0; i <= AttackThreshold; i++ {
		must(t, b.Offer(pkt(time.Duration(i)*time.Second, victimA, protocols.LDAP, 0)))
	}
	f := b.Flush()[0]
	if !f.IsAttack() || Classify(f) != Attack {
		t.Error("6 packets at one sensor should classify as attack")
	}
}

func TestClassificationStrings(t *testing.T) {
	if Attack.String() != "attack" || Scan.String() != "scan" {
		t.Error("Classification.String mismatch")
	}
}

func TestAggregatorRejectsAncientPackets(t *testing.T) {
	a := NewAggregator()
	must(t, a.Offer(pkt(time.Hour, victimA, protocols.DNS, 0)))
	if err := a.Offer(pkt(0, victimA, protocols.DNS, 0)); err == nil {
		t.Error("accepted packet older than one flow gap behind stream head")
	}
}

func TestAdvanceClosesQuietFlows(t *testing.T) {
	a := NewAggregator()
	must(t, a.Offer(pkt(0, victimA, protocols.DNS, 0)))
	if got := a.OpenFlows(); got != 1 {
		t.Fatalf("open flows = %d", got)
	}
	a.Advance(t0.Add(FlowGap))
	if got := a.OpenFlows(); got != 0 {
		t.Errorf("open flows after Advance = %d, want 0", got)
	}
	if got := len(a.Completed()); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	// Completed drains.
	if got := len(a.Completed()); got != 0 {
		t.Errorf("completed after drain = %d, want 0", got)
	}
}

func TestFlowPacketConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAggregator()
		n := 50 + rng.Intn(100)
		var offered int
		now := time.Duration(0)
		for i := 0; i < n; i++ {
			now += time.Duration(rng.Intn(300)) * time.Second
			victim := victimA
			if rng.Intn(2) == 0 {
				victim = victimB
			}
			proto := protocols.All()[rng.Intn(protocols.Count())]
			if err := a.Offer(pkt(now, victim, proto, rng.Intn(5))); err != nil {
				return false
			}
			offered++
		}
		var total int
		for _, fl := range a.Flush() {
			total += fl.TotalPackets
			// No flow may span a quiet gap: duration of a k-packet flow
			// is bounded by (k-1) * gap.
			if fl.Duration() >= time.Duration(fl.TotalPackets)*FlowGap {
				return false
			}
		}
		return total == offered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSensorReflectsValidRequests(t *testing.T) {
	fleet := NewFleet(1, 0)
	s := fleet.Sensors[0]
	resp := s.Receive(t0, victimA, protocols.DNS, protocols.DNS.Request())
	if resp == nil {
		t.Fatal("sensor refused a valid first request")
	}
	st := s.Stats()
	if st.Received != 1 || st.Reflected != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSensorRateLimitReportsVictim(t *testing.T) {
	fleet := NewFleet(2, 0)
	s0, s1 := fleet.Sensors[0], fleet.Sensors[1]
	req := protocols.NTP.Request()
	// Exceed the limit at sensor 0.
	for i := 0; i <= RateLimit; i++ {
		s0.Receive(t0.Add(time.Duration(i)*time.Second), victimA, protocols.NTP, req)
	}
	st := s0.Stats()
	if st.RateLimited == 0 {
		t.Fatal("rate limiter never tripped")
	}
	if fleet.Registry.Len() != 1 {
		t.Fatalf("registry has %d victims, want 1", fleet.Registry.Len())
	}
	// Every other sensor now refuses the victim ("they all refuse to
	// reflect any packets at all to the victim").
	if resp := s1.Receive(t0.Add(time.Minute), victimA, protocols.NTP, req); resp != nil {
		t.Error("sensor 1 reflected to a registered victim")
	}
	if s1.Stats().SuppressedVictim != 1 {
		t.Errorf("sensor 1 stats = %+v", s1.Stats())
	}
}

func TestVictimRegistryTTL(t *testing.T) {
	reg := NewVictimRegistry(time.Hour)
	reg.Report(victimA, t0)
	if !reg.Suppressed(victimA, t0.Add(30*time.Minute)) {
		t.Error("victim not suppressed within TTL")
	}
	if reg.Suppressed(victimA, t0.Add(2*time.Hour)) {
		t.Error("victim still suppressed after TTL")
	}
	// TTL 0 = forever.
	forever := NewVictimRegistry(0)
	forever.Report(victimA, t0)
	if !forever.Suppressed(victimA, t0.AddDate(10, 0, 0)) {
		t.Error("permanent registry expired")
	}
}

func TestWhiteHatExemption(t *testing.T) {
	fleet := NewFleet(1, 0)
	scanner := netip.MustParseAddr("192.0.2.99")
	fleet.AddWhiteHat(scanner)
	s := fleet.Sensors[0]
	if resp := s.Receive(t0, scanner, protocols.DNS, protocols.DNS.Request()); resp != nil {
		t.Error("sensor replied to a white-hat scanner")
	}
	if s.Stats().WhiteHatDropped != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
	// The packet is still logged for measurement.
	if len(s.DrainLog()) != 1 {
		t.Error("white-hat packet not logged")
	}
}

func TestMalformedRequestsDropped(t *testing.T) {
	fleet := NewFleet(1, 0)
	s := fleet.Sensors[0]
	if resp := s.Receive(t0, victimA, protocols.DNS, []byte{1, 2, 3}); resp != nil {
		t.Error("sensor reflected a malformed DNS request")
	}
	if s.Stats().Malformed != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestRateLimitWindowResets(t *testing.T) {
	fleet := NewFleet(1, 0)
	s := fleet.Sensors[0]
	req := protocols.CHARGEN.Request()
	for i := 0; i < RateLimit; i++ {
		if resp := s.Receive(t0.Add(time.Duration(i)*time.Second), victimA, protocols.CHARGEN, req); resp == nil {
			t.Fatalf("refused request %d under the limit", i)
		}
	}
	// After the window expires the budget refreshes.
	later := t0.Add(RateWindow + time.Second)
	if resp := s.Receive(later, victimA, protocols.CHARGEN, req); resp == nil {
		t.Error("refused request after window reset")
	}
}

func TestFleetLogMergeOrdered(t *testing.T) {
	fleet := NewFleet(3, 0)
	for i := 2; i >= 0; i-- {
		fleet.Sensors[i].Receive(t0.Add(time.Duration(i)*time.Second), victimA, protocols.QOTD, []byte{'\n'})
	}
	log := fleet.DrainLogs()
	if len(log) != 3 {
		t.Fatalf("log length = %d", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].Time.Before(log[i-1].Time) {
			t.Error("merged log not time ordered")
		}
	}

	// Same-instant packets to one victim on one sensor that differ only in
	// protocol must drain identically whatever order they arrived in.
	var drains [2][]Packet
	for i, protos := range [][]protocols.Protocol{
		{protocols.QOTD, protocols.CHARGEN},
		{protocols.CHARGEN, protocols.QOTD},
	} {
		fleet := NewFleet(1, 0)
		for _, p := range protos {
			fleet.Sensors[0].Receive(t0, victimA, p, p.Request())
		}
		drains[i] = fleet.DrainLogs()
	}
	if !reflect.DeepEqual(drains[0], drains[1]) {
		t.Errorf("drain depends on arrival order:\n%v\n%v", drains[0], drains[1])
	}
}

func TestEndToEndPipelineCountsAttacks(t *testing.T) {
	// Simulate a small attack campaign through sensors -> merged log ->
	// aggregation -> classification: the measurement pipeline the weekly
	// dataset is built from.
	fleet := NewFleet(5, 0)
	rng := rand.New(rand.NewSource(77))
	// One real attack: 40 spoofed packets to victimA over 2 minutes.
	for i := 0; i < 40; i++ {
		s := fleet.Sensors[rng.Intn(5)]
		s.Receive(t0.Add(time.Duration(i)*3*time.Second), victimA, protocols.LDAP, protocols.LDAP.Request())
	}
	// One scanner probing each sensor once from victimB's address.
	for i := 0; i < 5; i++ {
		fleet.Sensors[i].Receive(t0.Add(time.Duration(i)*time.Second), victimB, protocols.LDAP, protocols.LDAP.Request())
	}
	agg := NewAggregator()
	for _, p := range fleet.DrainLogs() {
		must(t, agg.Offer(p))
	}
	var attacks, scans int
	for _, f := range agg.Flush() {
		switch Classify(f) {
		case Attack:
			attacks++
		case Scan:
			scans++
		}
	}
	if attacks != 1 || scans != 1 {
		t.Errorf("attacks=%d scans=%d, want 1 and 1", attacks, scans)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
