package simnet

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("fresh clock Now() = %v, want 0", got)
	}
	c.Advance(5 * time.Microsecond)
	if got := c.Now(); got != Time(5000) {
		t.Fatalf("Now() = %v, want 5000", got)
	}
	c.Advance(-time.Second) // negative ignored
	if got := c.Now(); got != Time(5000) {
		t.Fatalf("Now() after negative advance = %v, want 5000", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Set(100)
	if got := c.AdvanceTo(50); got != 100 {
		t.Fatalf("AdvanceTo(50) = %v, want 100 (never go backwards)", got)
	}
	if got := c.AdvanceTo(200); got != 200 {
		t.Fatalf("AdvanceTo(200) = %v, want 200", got)
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := Time(1500)
	if got := tt.Micros(); got != 1.5 {
		t.Fatalf("Micros() = %v, want 1.5", got)
	}
	if got := tt.Add(500 * time.Nanosecond); got != 2000 {
		t.Fatalf("Add = %v, want 2000", got)
	}
	if got := tt.Sub(500); got != time.Microsecond {
		t.Fatalf("Sub = %v, want 1us", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Discovery10GbE()
	if err := good.Validate(); err != nil {
		t.Fatalf("Discovery10GbE should validate: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.RanksPerNode = -1 },
		func(c *Config) { c.InterBandwidth = 0 },
		func(c *Config) { c.IntraBandwidth = -5 },
		func(c *Config) { c.NICBandwidth = 0 },
		func(c *Config) { c.InterLatency = -time.Second },
		func(c *Config) { c.JitterFrac = 1.5 },
	}
	for i, mutate := range cases {
		c := Discovery10GbE()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed Validate", i)
		}
	}
}

func TestConfigPlacement(t *testing.T) {
	c := Discovery10GbE()
	if c.Size() != 48 {
		t.Fatalf("Size() = %d, want 48", c.Size())
	}
	if c.NodeOf(0) != 0 || c.NodeOf(11) != 0 || c.NodeOf(12) != 1 || c.NodeOf(47) != 3 {
		t.Fatalf("NodeOf block distribution wrong: %d %d %d %d",
			c.NodeOf(0), c.NodeOf(11), c.NodeOf(12), c.NodeOf(47))
	}
}

func newTestNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func TestTransferIntraNode(t *testing.T) {
	cfg := SingleNode(4)
	n := newTestNet(t, cfg)
	arrive := n.Transfer(0, 1, 0, 0)
	if arrive != Time(cfg.IntraLatency) {
		t.Fatalf("zero-byte intra-node transfer = %v, want latency %v", arrive, cfg.IntraLatency)
	}
	// Per-byte cost grows linearly.
	a1 := n.Transfer(0, 1, 1<<20, 0)
	a2 := n.Transfer(0, 1, 2<<20, 0)
	d1, d2 := a1.Sub(Time(cfg.IntraLatency)), a2.Sub(Time(cfg.IntraLatency))
	if d2 < 2*d1-time.Microsecond || d2 > 2*d1+time.Microsecond {
		t.Fatalf("intra-node cost not linear: 1MiB=%v 2MiB=%v", d1, d2)
	}
}

func TestTransferInterNodeUncontended(t *testing.T) {
	cfg := Discovery10GbE()
	cfg.JitterFrac = 0
	n := newTestNet(t, cfg)
	// rank 0 on node 0, rank 12 on node 1
	arrive := n.Transfer(0, 12, 0, 0)
	if arrive != Time(cfg.InterLatency) {
		t.Fatalf("zero-byte inter-node transfer = %v, want alpha %v", arrive, cfg.InterLatency)
	}
	sz := 1 << 20
	arrive = newTestNet(t, cfg).Transfer(0, 12, sz, 0)
	want := Time(cfg.InterLatency + bytesTime(sz, cfg.NICBandwidth))
	if arrive != want {
		t.Fatalf("1MiB inter-node transfer = %v, want %v", arrive, want)
	}
}

func TestTransferSelf(t *testing.T) {
	n := newTestNet(t, SingleNode(2))
	if got := n.Transfer(1, 1, 0, 42); got != 42 {
		t.Fatalf("zero-byte self transfer should be free, got %v", got)
	}
}

func TestTransferNICContention(t *testing.T) {
	cfg := Discovery10GbE()
	cfg.JitterFrac = 0
	n := newTestNet(t, cfg)
	sz := 1 << 20
	// Two ranks on node 0 send to two different nodes at the same instant:
	// the shared egress NIC must serialize them.
	a1 := n.Transfer(0, 12, sz, 0)
	a2 := n.Transfer(1, 24, sz, 0)
	tx := bytesTime(sz, cfg.NICBandwidth)
	if a2 < a1.Add(tx/2) {
		t.Fatalf("no NIC serialization visible: first=%v second=%v tx=%v", a1, a2, tx)
	}
	// On a fresh network the second sender sees an idle NIC.
	if got := newTestNet(t, cfg).Transfer(1, 24, sz, 0); got != Time(cfg.InterLatency+tx) {
		t.Fatalf("on an idle NIC, transfer = %v, want %v", got, Time(cfg.InterLatency+tx))
	}
}

func TestTransferJitterBounded(t *testing.T) {
	cfg := Discovery10GbE()
	cfg.JitterFrac = 0.10
	base := Time(cfg.InterLatency)
	for i := 0; i < 200; i++ {
		cfg.Seed = int64(i)
		got := newTestNet(t, cfg).Transfer(0, 12, 0, 0)
		if got < base || got > base.Add(time.Duration(0.10*float64(cfg.InterLatency))) {
			t.Fatalf("jittered arrival %v outside [%v, base*1.1]", got, base)
		}
	}
}

func TestTransferDeterministicWithSeed(t *testing.T) {
	run := func() []Time {
		cfg := Discovery10GbE()
		cfg.Seed = 7
		n := newTestNet(t, cfg)
		var out []Time
		for i := 0; i < 32; i++ {
			out = append(out, n.Transfer(0, 12+i%12, 100, Time(i)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transfer %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: arrival is never before departure + minimum latency, and is
// monotone in message size for a fixed path on a fresh network.
func TestTransferMonotoneInSize(t *testing.T) {
	cfg := Discovery10GbE()
	cfg.JitterFrac = 0
	f := func(szRaw uint16, extra uint16) bool {
		n1, err1 := NewNetwork(cfg)
		n2, err2 := NewNetwork(cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		sz := int(szRaw)
		a1 := n1.Transfer(0, 12, sz, 0)
		a2 := n2.Transfer(0, 12, sz+int(extra), 0)
		return a2 >= a1 && a1 >= Time(cfg.InterLatency)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock max-rule is idempotent and commutative.
func TestClockAdvanceToProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		var c1, c2 Clock
		c1.AdvanceTo(Time(a))
		c1.AdvanceTo(Time(b))
		c2.AdvanceTo(Time(b))
		c2.AdvanceTo(Time(a))
		return c1.Now() == c2.Now() && c1.Now() >= Time(a) && c1.Now() >= Time(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransferInterNode(b *testing.B) {
	cfg := Discovery10GbE()
	n, _ := NewNetwork(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Transfer(0, 12, 1024, Time(i))
	}
}
