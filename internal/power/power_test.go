package power

import (
	"math"
	"testing"
	"testing/quick"

	"response/internal/topo"
)

func pair(t *testing.T, capacity float64) (*topo.Topology, topo.LinkID) {
	t.Helper()
	tp := topo.New("pair")
	a := tp.AddNode("A", topo.KindRouter)
	b := tp.AddNode("B", topo.KindRouter)
	l := tp.AddLink(a, b, capacity, 0.001)
	return tp, l
}

func TestCisco12000PortTiers(t *testing.T) {
	m := Cisco12000{}
	cases := []struct {
		cap  float64
		want float64
	}{
		{100 * topo.Mbps, 60},
		{155 * topo.Mbps, 60},
		{622 * topo.Mbps, 80},
		{2.5 * topo.Gbps, 100},
		{10 * topo.Gbps, 174},
		{40 * topo.Gbps, 174},
	}
	for _, c := range cases {
		tp, l := pair(t, c.cap)
		link := tp.Link(l)
		got := m.PortWatts(tp.Node(link.A), tp.Arc(link.AB))
		if got != c.want {
			t.Errorf("cap %v: port = %v, want %v", c.cap, got, c.want)
		}
	}
}

func TestCisco12000ChassisAndHost(t *testing.T) {
	m := Cisco12000{}
	tp := topo.New("h")
	r := tp.AddNode("R", topo.KindRouter)
	h := tp.AddNode("H", topo.KindHost)
	if m.ChassisWatts(tp.Node(r)) != 600 {
		t.Error("router chassis != 600")
	}
	if m.ChassisWatts(tp.Node(h)) != 0 {
		t.Error("host should draw no chassis power")
	}
	tp.AddLink(r, h, topo.Gbps, 0.001)
	l := tp.Link(0)
	if m.PortWatts(tp.Node(h), tp.Arc(l.BA)) != 0 {
		t.Error("host-side port should be free")
	}
}

func TestAmplifierSpans(t *testing.T) {
	m := Cisco12000{}
	short := topo.Link{LengthKm: 10}
	long := topo.Link{LengthKm: 400}
	if m.AmpWatts(short) != 1.2 {
		t.Errorf("short amp = %v", m.AmpWatts(short))
	}
	if math.Abs(m.AmpWatts(long)-1.2*6) > 1e-9 {
		t.Errorf("400km amp = %v, want %v", m.AmpWatts(long), 1.2*6)
	}
}

func TestAlternativeDividesChassisOnly(t *testing.T) {
	base := Cisco12000{}
	alt := Alternative{Base: base}
	tp, l := pair(t, 10*topo.Gbps)
	n := tp.Node(0)
	if alt.ChassisWatts(n) != base.ChassisWatts(n)/10 {
		t.Error("chassis not divided by 10")
	}
	link := tp.Link(l)
	if alt.PortWatts(n, tp.Arc(link.AB)) != base.PortWatts(n, tp.Arc(link.AB)) {
		t.Error("ports should be unchanged")
	}
	if alt.AmpWatts(link) != base.AmpWatts(link) {
		t.Error("amps should be unchanged")
	}
	if alt.Name() != "cisco12000-alt" {
		t.Errorf("name = %q", alt.Name())
	}
}

func TestCommodityFixedFraction(t *testing.T) {
	m := NewCommodity(4)
	tp, l := pair(t, topo.Gbps)
	n := tp.Node(0)
	chassis := m.ChassisWatts(n)
	port := m.PortWatts(n, tp.Arc(tp.Link(l).AB))
	if math.Abs(chassis-135) > 1e-9 {
		t.Errorf("chassis = %v, want 135 (90%% of 150)", chassis)
	}
	if math.Abs(port-150*0.1/4) > 1e-9 {
		t.Errorf("port = %v", port)
	}
	if m.AmpWatts(tp.Link(l)) != 0 {
		t.Error("commodity links need no amps")
	}
	// Zero-value defaults.
	var zero Commodity
	if zero.ChassisWatts(n) != 135 {
		t.Errorf("zero-value chassis = %v", zero.ChassisWatts(n))
	}
}

func TestNetworkWattsAccounting(t *testing.T) {
	m := Cisco12000{}
	tp, l := pair(t, 10*topo.Gbps)
	on := topo.AllOn(tp)
	link := tp.Link(l)
	want := 2*600 + 2*174 + 2*m.AmpWatts(link)
	if got := NetworkWatts(tp, m, on); math.Abs(got-want) > 1e-9 {
		t.Errorf("all-on = %v, want %v", got, want)
	}
	// Sleep the link: only chassis remain... but constraint semantics
	// are the caller's concern; NetworkWatts just prices the mask.
	off := on.Clone()
	off.Link[l] = false
	if got := NetworkWatts(tp, m, off); math.Abs(got-1200) > 1e-9 {
		t.Errorf("link-off = %v, want 1200", got)
	}
	allOff := topo.AllOff(tp)
	if NetworkWatts(tp, m, allOff) != 0 {
		t.Error("all-off should draw nothing")
	}
}

// Property: power is monotone in the active set.
func TestNetworkWattsMonotoneProperty(t *testing.T) {
	tp := topo.NewGeant()
	m := Cisco12000{}
	f := func(bitsR, bitsL uint64) bool {
		a := topo.AllOff(tp)
		for i := range a.Router {
			a.Router[i] = bitsR&(1<<uint(i%64)) != 0
		}
		for i := range a.Link {
			a.Link[i] = bitsL&(1<<uint(i%64)) != 0
		}
		b := a.Clone()
		// Turn one more element on in b.
		for i := range b.Router {
			if !b.Router[i] {
				b.Router[i] = true
				break
			}
		}
		for i := range b.Link {
			if !b.Link[i] {
				b.Link[i] = true
				break
			}
		}
		return NetworkWatts(tp, m, b) >= NetworkWatts(tp, m, a)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFractionBounds: the meter's percent-of-full reading spans
// [0, 100] from all-off to all-on.
func TestFractionBounds(t *testing.T) {
	tp := topo.NewGeant()
	m := Cisco12000{}
	if got := NewMeter(tp, m, topo.AllOn(tp)).Series[0].PctOfFull; math.Abs(got-100) > 1e-9 {
		t.Errorf("all-on fraction = %v", got)
	}
	if got := NewMeter(tp, m, topo.AllOff(tp)).Series[0].PctOfFull; got != 0 {
		t.Errorf("all-off fraction = %v", got)
	}
}

func TestMeterIntegration(t *testing.T) {
	m := Cisco12000{}
	tp, l := pair(t, 10*topo.Gbps)
	on := topo.AllOn(tp)
	fullW := NetworkWatts(tp, m, on)
	meter := NewMeter(tp, m, on)
	// 10 s at full power.
	off := on.Clone()
	off.Link[l] = false
	off.EnforceInvariants(tp)
	meter.Observe(10, off)
	// 5 s with everything asleep (link off → routers off).
	j := meter.Finish(15)
	want := fullW*10 + NetworkWatts(tp, m, off)*5
	if math.Abs(j-want) > 1e-6 {
		t.Errorf("joules = %v, want %v", j, want)
	}
	if len(meter.Series) != 2 {
		t.Errorf("series points = %d", len(meter.Series))
	}
	if meter.FullWatts() != fullW {
		t.Error("full watts mismatch")
	}
	// Out-of-order observation clamps rather than rewinding.
	meter2 := NewMeter(tp, m, on)
	meter2.Observe(5, on)
	meter2.Observe(3, on) // ignored time travel
	if meter2.Finish(5) != fullW*5 {
		t.Error("meter mishandled out-of-order observation")
	}
}

// TestLinkWattsIsTheInlinedPrice: LinkWatts is bit-equal to the
// expression the planner's five call sites used to spell out.
func TestLinkWattsIsTheInlinedPrice(t *testing.T) {
	g := topo.NewGeant()
	for _, m := range []Model{Cisco12000{}, Alternative{Base: Cisco12000{}}, NewCommodity(4)} {
		for _, l := range g.Links() {
			want := m.PortWatts(g.Node(l.A), g.Arc(l.AB)) +
				m.PortWatts(g.Node(l.B), g.Arc(l.BA)) + 2*m.AmpWatts(l)
			if got := LinkWatts(g, m, l); got != want {
				t.Errorf("%s link %d: LinkWatts = %v, inlined = %v", m.Name(), l.ID, got, want)
			}
		}
	}
}
