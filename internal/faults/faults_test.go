package faults

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
)

func cfg2x4() simnet.Config {
	c := simnet.Discovery10GbE()
	c.Nodes = 2
	c.RanksPerNode = 4
	return c
}

func TestSeededDrawsAreDeterministic(t *testing.T) {
	plan := Plan{Faults: []Spec{
		{Kind: KindRankCrash, Rank: Anywhere, Node: Anywhere},
		{Kind: KindNodeCrash, Rank: Anywhere, Node: Anywhere},
		{Kind: KindNICDegrade, Rank: Anywhere, Node: Anywhere},
	}}
	a, err := NewInjector(plan, 42, cfg2x4())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(plan, 42, cfg2x4())
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Faults(), b.Faults()
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("same seed resolved differently:\n%+v\n%+v", fa, fb)
	}
	// A different seed must be able to move the draw (checked over a few
	// seeds so the test does not hinge on one collision).
	moved := false
	for seed := int64(1); seed <= 8 && !moved; seed++ {
		c, err := NewInjector(plan, seed, cfg2x4())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fa, c.Faults()) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("seed has no effect on fault resolution")
	}
}

func TestResolutionShapes(t *testing.T) {
	in, err := NewInjector(Plan{Faults: []Spec{
		{Kind: KindRankCrash, Rank: Anywhere, Node: Anywhere},
		{Kind: KindNodeCrash, Rank: Anywhere, Node: 1},
		{Kind: KindNICDegrade, Rank: Anywhere, Node: 0},
	}}, 7, cfg2x4())
	if err != nil {
		t.Fatal(err)
	}
	fs := in.Faults()
	crash, node, nic := fs[0], fs[1], fs[2]
	if len(crash.Ranks) != 1 || crash.Ranks[0] < 0 || crash.Ranks[0] >= 8 {
		t.Fatalf("rank crash resolved to %v", crash.Ranks)
	}
	if crash.TriggerStep < 2 || crash.TriggerStep > 3 {
		t.Fatalf("default step draw %d outside [2,3]", crash.TriggerStep)
	}
	if want := []int{4, 5, 6, 7}; !reflect.DeepEqual(node.Ranks, want) {
		t.Fatalf("node crash ranks = %v, want %v", node.Ranks, want)
	}
	if nic.Ranks != nil || nic.Factor != 8 {
		t.Fatalf("nic fault resolved to ranks=%v factor=%g", nic.Ranks, nic.Factor)
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Spec{
		{Kind: "meteor-strike"},
		{Kind: KindRankCrash, Rank: 99, Node: Anywhere},
		{Kind: KindNodeCrash, Rank: Anywhere, Node: 5},
		{Kind: KindNICDegrade, Rank: Anywhere, Node: 0, Factor: 0.5},
		{Kind: KindRankCrash, Rank: 0, Node: Anywhere, MinStep: 9, MaxStep: 3},
		{Kind: KindRankCrash, Rank: 0, Node: Anywhere, At: -time.Second},
	}
	for _, s := range bad {
		if _, err := NewInjector(Plan{Faults: []Spec{s}}, 1, cfg2x4()); err == nil {
			t.Errorf("invalid spec %+v accepted", s)
		}
	}
}

func TestCrashAtFiresOnceAndKillsCoVictims(t *testing.T) {
	in, err := NewInjector(Plan{Faults: []Spec{
		{Kind: KindNodeCrash, Rank: Anywhere, Node: 0, Step: 5},
	}}, 1, cfg2x4())
	if err != nil {
		t.Fatal(err)
	}
	if _, dead, _ := in.CrashAt(0, 4, 0); dead {
		t.Fatal("fault fired before its trigger step")
	}
	if _, dead, _ := in.CrashAt(7, 100, 0); dead {
		t.Fatal("fault killed a rank on the healthy node")
	}
	f, dead, first := in.CrashAt(2, 5, 0)
	if !dead || !first || f == nil {
		t.Fatalf("trigger rank: dead=%v first=%v", dead, first)
	}
	// Co-victims die, but do not re-trigger; the trigger rank itself dies
	// again without re-triggering (restart-leg replay of the step).
	for _, r := range []int{0, 1, 2, 3} {
		if _, dead, first := in.CrashAt(r, 6, 0); !dead || first {
			t.Fatalf("rank %d after fire: dead=%v first=%v", r, dead, first)
		}
	}
	// A new leg (the recovered job) sees the fault as spent: the replayed
	// trigger step must not re-kill anyone.
	in.BeginLeg()
	for _, r := range []int{0, 1, 2, 3} {
		if _, dead, _ := in.CrashAt(r, 100, 0); dead {
			t.Fatalf("spent fault killed rank %d on a new leg", r)
		}
	}
}

func TestVirtualTimeTrigger(t *testing.T) {
	in, err := NewInjector(Plan{Faults: []Spec{
		{Kind: KindRankCrash, Rank: 3, Node: Anywhere, At: time.Millisecond},
	}}, 1, cfg2x4())
	if err != nil {
		t.Fatal(err)
	}
	if _, dead, _ := in.CrashAt(3, 50, simnet.Time(time.Millisecond)-1); dead {
		t.Fatal("virtual-time fault fired early")
	}
	if _, dead, first := in.CrashAt(3, 51, simnet.Time(time.Millisecond)); !dead || !first {
		t.Fatal("virtual-time fault did not fire at its trigger")
	}
}

func TestArmNetworkDegradesTransfers(t *testing.T) {
	cfg := cfg2x4()
	cfg.JitterFrac = 0
	net, err := simnet.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const at = simnet.Time(1e6)
	healthy := net.Transfer(0, 4, 1<<20, 0)
	in, err := NewInjector(Plan{Faults: []Spec{
		{Kind: KindNICDegrade, Rank: Anywhere, Node: 0, Factor: 10, At: time.Duration(at)},
	}}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.ArmNetwork(net)
	// Before the trigger the NIC is healthy; after it, the same transfer
	// serializes ten times slower. Reset clears the congestion bookkeeping
	// between probes so each one sees an idle network.
	net.Reset()
	before := net.Transfer(0, 4, 1<<20, 0)
	if before != healthy {
		t.Fatalf("pre-trigger transfer changed: %v vs %v", before, healthy)
	}
	net.Reset()
	afterStart := at + 1
	slow := net.Transfer(0, 4, 1<<20, afterStart)
	fast := healthy - 0 // healthy transfer duration from t=0
	if slowDur := slow - afterStart; slowDur < 5*fast {
		t.Fatalf("degraded transfer took %v, healthy %v — degradation not applied", slowDur, fast)
	}
}
