package simnet

import (
	"math/rand"
	"time"
)

// congestionBucketNs quantizes virtual time for NIC congestion accounting.
const congestionBucketNs = 50_000 // 50us

// linkClock models the serialization of one NIC direction with bucketed
// byte accounting: a transfer departing at virtual time t is delayed by the
// serialization time of the bytes already booked in t's bucket. This is
// order-insensitive across virtual time — a rank running ahead can never
// push an earlier-virtual-time transfer into its own future (a ratcheting
// "next free" clock would, because reservation order is fiber run order,
// not virtual-time order, and the feedback inflates clock skew without
// bound).
type linkClock struct {
	buckets map[int64]int64 // bucket index -> bytes booked
}

// reserve books nbytes departing at the given time and returns the queueing
// delay behind bytes already booked in the same window.
func (l *linkClock) reserve(at Time, nbytes int, bw float64) time.Duration {
	if nbytes <= 0 {
		return 0
	}
	if l.buckets == nil {
		l.buckets = make(map[int64]int64)
	}
	idx := int64(at) / congestionBucketNs
	queued := l.buckets[idx]
	l.buckets[idx] += int64(nbytes)
	// Opportunistic cleanup keeps long simulations from accumulating
	// dead buckets.
	if len(l.buckets) > 4096 {
		for k := range l.buckets {
			if k < idx-64 {
				delete(l.buckets, k)
			}
		}
	}
	return bytesTime(int(queued), bw)
}

// nodeDegrade is an injected NIC degradation: from virtual time at
// onward, the node's NIC serializes at factor times its configured cost.
type nodeDegrade struct {
	at     Time
	factor float64
}

// Network computes virtual arrival times for messages on the simulated
// cluster. It has no locks: one world's ranks use it, and they run one at
// a time, as fibers under the world's execution token
// (internal/fabric's scheduler). Any other user must not share a Network
// between goroutines.
type Network struct {
	cfg     Config
	egress  []linkClock // one per node
	ingress []linkClock // one per node
	degr    map[int]nodeDegrade
	rng     *rand.Rand // made on the first jitter, from cfg.Seed
}

// NewNetwork builds a Network for the given configuration. The configuration
// must Validate.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		cfg:     cfg,
		egress:  make([]linkClock, cfg.Nodes),
		ingress: make([]linkClock, cfg.Nodes),
	}, nil
}

// DegradeNodeAfter injects a NIC degradation (internal/faults'
// nic-degrade): transfers crossing the node's NIC at/after virtual time
// at serialize at 1/factor of the configured rate. The trigger is pure
// virtual time, so degraded runs stay as deterministic as healthy ones.
// A second call for the same node replaces the first. Factors below 1
// and out-of-range nodes are ignored (a degradation can slow a NIC, not
// speed it up).
func (n *Network) DegradeNodeAfter(node int, factor float64, at Time) {
	if node < 0 || node >= n.cfg.Nodes || factor < 1 {
		return
	}
	if n.degr == nil {
		n.degr = make(map[int]nodeDegrade)
	}
	n.degr[node] = nodeDegrade{at: at, factor: factor}
}

// nicBandwidth is the node's effective NIC rate for a transfer touching
// it at virtual time at.
func (n *Network) nicBandwidth(node int, at Time) float64 {
	if d, ok := n.degr[node]; ok && at >= d.at {
		return n.cfg.NICBandwidth / d.factor
	}
	return n.cfg.NICBandwidth
}

// Transfer returns the virtual time at which a message of nbytes sent from
// src to dst at the given departure time is fully available at the receiver.
//
// Intra-node transfers use the shared-memory path: latency plus copy cost,
// with no NIC involvement. Inter-node transfers serialize on the source
// node's egress NIC, cross the wire (alpha + jitter), and serialize on the
// destination node's ingress NIC using cut-through timing, so an
// uncontended transfer costs alpha + nbytes/beta exactly once.
func (n *Network) Transfer(src, dst int, nbytes int, depart Time) Time {
	if nbytes < 0 {
		nbytes = 0
	}
	srcNode, dstNode := n.cfg.NodeOf(src), n.cfg.NodeOf(dst)
	if src == dst {
		// Self-send: a memcpy.
		return depart.Add(bytesTime(nbytes, n.cfg.IntraBandwidth))
	}
	if srcNode == dstNode {
		return depart.Add(n.cfg.IntraLatency + bytesTime(nbytes, n.cfg.IntraBandwidth))
	}
	ebw := n.nicBandwidth(srcNode, depart)
	tx := bytesTime(nbytes, ebw)
	eDelay := n.egress[srcNode].reserve(depart, nbytes, ebw)
	wire := n.cfg.InterLatency + n.jitter(n.cfg.InterLatency)
	afterWire := depart.Add(eDelay + tx + wire)
	ibw := n.nicBandwidth(dstNode, afterWire)
	iDelay := n.ingress[dstNode].reserve(afterWire, nbytes, ibw)
	return afterWire.Add(iDelay + bytesExtra(nbytes, ibw, n.cfg.InterBandwidth))
}

// jitter returns a random perturbation of up to JitterFrac*base.
func (n *Network) jitter(base time.Duration) time.Duration {
	if n.cfg.JitterFrac == 0 || base <= 0 {
		return 0
	}
	if n.rng == nil { // made on first use: a world without jitter never seeds one
		n.rng = rand.New(rand.NewSource(n.cfg.Seed))
	}
	return time.Duration(n.rng.Float64() * n.cfg.JitterFrac * float64(base))
}

// bytesTime is the serialization time of nbytes at bw bytes/second.
func bytesTime(nbytes int, bw float64) time.Duration {
	return time.Duration(float64(nbytes) / bw * float64(time.Second))
}

// bytesExtra is the additional per-byte cost when the end-to-end bandwidth
// (bw2) is lower than the NIC serialization rate (bw1). With equal rates it
// is zero, keeping the uncontended cost alpha + n/beta.
func bytesExtra(nbytes int, bw1, bw2 float64) time.Duration {
	if bw2 >= bw1 {
		return 0
	}
	return bytesTime(nbytes, bw2) - bytesTime(nbytes, bw1)
}
